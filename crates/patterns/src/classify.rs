//! A structural pattern classifier.
//!
//! The paper's future-work section imagines students analyzing composite or
//! noisy matrices "to determine what is happening in the network". The
//! classifier provides the machine-side reference for that exercise: given an
//! arbitrary matrix it ranks every catalog pattern by structural similarity,
//! so the game can check a student's analysis and the benchmarks can measure
//! how much noise a pattern tolerates before it becomes unrecognizable
//! (experiment E-S1/E-S3 support).

use crate::catalog::all_patterns;
use crate::Pattern;
use tw_matrix::TrafficMatrix;

/// The result of classifying a matrix against the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Pattern id of the best match.
    pub best_id: String,
    /// Human-readable name of the best match.
    pub best_name: String,
    /// Similarity of the best match, in `[0, 1]`.
    pub best_score: f64,
    /// All `(pattern id, similarity)` pairs, sorted best-first.
    pub ranking: Vec<(String, f64)>,
}

/// Cosine similarity between the two matrices' cell-value vectors, treating a
/// missing dimension mismatch as zero similarity.
pub fn similarity(a: &TrafficMatrix, b: &TrafficMatrix) -> f64 {
    if a.dimension() != b.dimension() {
        return 0.0;
    }
    let n = a.dimension();
    let mut dot = 0f64;
    let mut norm_a = 0f64;
    let mut norm_b = 0f64;
    for r in 0..n {
        for c in 0..n {
            let va = a.get(r, c).unwrap_or(0) as f64;
            let vb = b.get(r, c).unwrap_or(0) as f64;
            dot += va * vb;
            norm_a += va * va;
            norm_b += vb * vb;
        }
    }
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    dot / (norm_a.sqrt() * norm_b.sqrt())
}

/// Classify a matrix against a set of candidate patterns.
pub fn classify_against(matrix: &TrafficMatrix, candidates: &[Pattern]) -> Classification {
    let mut ranking: Vec<(String, f64)> = candidates
        .iter()
        .map(|p| (p.id.clone(), similarity(matrix, &p.matrix)))
        .collect();
    ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let (best_id, best_score) = ranking.first().cloned().unwrap_or((String::new(), 0.0));
    let best_name = candidates
        .iter()
        .find(|p| p.id == best_id)
        .map(|p| p.name.clone())
        .unwrap_or_default();
    Classification {
        best_id,
        best_name,
        best_score,
        ranking,
    }
}

/// Classify a matrix against the full figure catalog.
pub fn classify(matrix: &TrafficMatrix) -> Classification {
    classify_against(matrix, &all_patterns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{add_background_noise, NoiseConfig};
    use crate::{attack, ddos, graph_theory, topology};
    use tw_matrix::LabelSet;

    #[test]
    fn every_clean_pattern_classifies_as_itself() {
        for p in all_patterns() {
            let result = classify(&p.matrix);
            assert_eq!(
                result.best_id, p.id,
                "clean {} must classify as itself",
                p.id
            );
            assert!((result.best_score - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn noisy_patterns_still_classify_correctly_at_moderate_noise() {
        let config = NoiseConfig {
            cell_probability: 0.05,
            max_packets: 1,
            seed: 3,
            ..NoiseConfig::default()
        };
        for p in [
            ddos::attack(),
            attack::planning(),
            topology::internal_supernode(),
            graph_theory::star(),
        ] {
            let noisy = add_background_noise(&p, &config);
            let result = classify(&noisy.matrix);
            assert_eq!(
                result.best_id, p.id,
                "noisy {} misclassified as {}",
                p.id, result.best_id
            );
            assert!(result.best_score > 0.5);
        }
    }

    #[test]
    fn similarity_properties() {
        let a = ddos::attack().matrix;
        let b = ddos::backscatter().matrix;
        assert!((similarity(&a, &a) - 1.0).abs() < 1e-12);
        let ab = similarity(&a, &b);
        let ba = similarity(&b, &a);
        assert!((ab - ba).abs() < 1e-12, "similarity must be symmetric");
        // Attack and backscatter occupy disjoint cells → orthogonal.
        assert_eq!(ab, 0.0);
        // Different dimensions → zero.
        let small = TrafficMatrix::zeros(LabelSet::numeric(4));
        assert_eq!(similarity(&a, &small), 0.0);
    }

    #[test]
    fn empty_matrix_has_zero_similarity_everywhere() {
        let empty = TrafficMatrix::zeros(LabelSet::numeric(10));
        let result = classify(&empty);
        assert_eq!(result.best_score, 0.0);
        assert!(result.ranking.iter().all(|(_, s)| *s == 0.0));
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let result = classify(&ddos::combined().matrix);
        assert_eq!(result.ranking.len(), all_patterns().len());
        assert!(result.ranking.windows(2).all(|w| w[0].1 >= w[1].1));
        // The combined DDoS picture should rank a DDoS component highest.
        assert!(
            result.best_id.starts_with("ddos/"),
            "best was {}",
            result.best_id
        );
    }

    #[test]
    fn classify_against_empty_candidates() {
        let result = classify_against(&TrafficMatrix::zeros(LabelSet::numeric(10)), &[]);
        assert_eq!(result.best_id, "");
        assert_eq!(result.best_score, 0.0);
        assert!(result.ranking.is_empty());
    }
}
