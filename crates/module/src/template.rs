//! The template modules the paper ships for educators to duplicate and modify.
//!
//! "To create a single matrix lesson there are example files that can be
//! duplicated and modified. … There are template JSON files for 6×6 or 10×10
//! matrices."

// tw-analyze: allow-file(no-panic-in-lib, "templates are authored as literals; each expect proves a module the template tests validate end to end")
use crate::schema::{LearningModule, MatrixSize, Question};
use tw_matrix::{ColorMatrix, LabelSet, TrafficMatrix};

/// The default template author, matching the paper's listing.
pub const TEMPLATE_AUTHOR: &str = "Chasen Milner";

/// The 10×10 template from the paper's Section II listings: identity diagonal
/// plus a 2-packet anti-diagonal, the WS/SRV/EXT/ADV labelling, the blue/red
/// color quadrants and the "How many packets did WS1 send to ADV4?" question.
pub fn template_10x10() -> LearningModule {
    let labels = LabelSet::paper_default_10();
    let n = labels.len();
    let mut matrix = TrafficMatrix::zeros(labels.clone());
    for i in 0..n {
        matrix.set(i, i, 1).expect("diagonal in range");
        matrix.set(i, n - 1 - i, 2).expect("anti-diagonal in range");
    }
    let colors = ColorMatrix::from_label_classes(&labels);
    LearningModule {
        name: "10x10 Template".to_string(),
        size: MatrixSize(10),
        author: TEMPLATE_AUTHOR.to_string(),
        matrix,
        colors,
        question: Some(Question {
            text: "How many packets did WS1 send to ADV4?".to_string(),
            answers: vec!["0".to_string(), "1".to_string(), "2".to_string()],
            correct_answer_element: 2,
        }),
        hint: None,
    }
}

/// The 6×6 template: the same diagonal/anti-diagonal structure on the smaller
/// label set, with an analogous question.
pub fn template_6x6() -> LearningModule {
    let labels = LabelSet::paper_default_6();
    let n = labels.len();
    let mut matrix = TrafficMatrix::zeros(labels.clone());
    for i in 0..n {
        matrix.set(i, i, 1).expect("diagonal in range");
        matrix.set(i, n - 1 - i, 2).expect("anti-diagonal in range");
    }
    let colors = ColorMatrix::from_label_classes(&labels);
    LearningModule {
        name: "6x6 Template".to_string(),
        size: MatrixSize(6),
        author: TEMPLATE_AUTHOR.to_string(),
        matrix,
        colors,
        question: Some(Question {
            text: "How many packets did WS1 send to ADV2?".to_string(),
            answers: vec!["0".to_string(), "1".to_string(), "2".to_string()],
            correct_answer_element: 2,
        }),
        hint: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    /// The packet count from `source` to `destination`, by label.
    fn by_label(m: &TrafficMatrix, source: &str, destination: &str) -> Option<u32> {
        m.get(
            m.labels().index_of(source)?,
            m.labels().index_of(destination)?,
        )
    }

    #[test]
    fn templates_are_valid() {
        assert!(validate(&template_10x10()).is_valid());
        assert!(validate(&template_6x6()).is_valid());
    }

    #[test]
    fn template_10x10_matches_the_paper_listing() {
        let t = template_10x10();
        assert_eq!(t.name, "10x10 Template");
        assert_eq!(t.author, "Chasen Milner");
        assert_eq!(t.size, MatrixSize(10));
        assert_eq!(by_label(&t.matrix, "WS1", "WS1"), Some(1));
        assert_eq!(by_label(&t.matrix, "WS1", "ADV4"), Some(2));
        assert_eq!(by_label(&t.matrix, "ADV4", "WS1"), Some(2));
        assert_eq!(t.colors.get(0, 6).unwrap().code(), 2);
        assert_eq!(t.colors.get(6, 0).unwrap().code(), 1);
        let q = t.question.unwrap();
        assert_eq!(q.correct_answer(), Some("2"));
        assert_eq!(q.answers.len(), 3);
    }

    #[test]
    fn template_6x6_is_the_scaled_down_version() {
        let t = template_6x6();
        assert_eq!(t.dimension(), 6);
        assert_eq!(t.matrix.total_packets(), 6 + 12);
        assert_eq!(by_label(&t.matrix, "WS1", "ADV2"), Some(2));
        assert!(t.has_question());
    }

    #[test]
    fn templates_round_trip_through_json() {
        for t in [template_10x10(), template_6x6()] {
            let reparsed = LearningModule::from_json(&t.to_json()).unwrap();
            assert_eq!(reparsed, t);
        }
    }
}
