//! A fluent builder for learning modules.
//!
//! The builder is the programmatic counterpart of "duplicate and modify the
//! template": pattern generators, curriculum tooling and tests use it to
//! assemble modules without hand-writing JSON.

use crate::error::Result;
use crate::schema::{LearningModule, MatrixSize, Question};
use tw_matrix::{CellColor, ColorMatrix, LabelSet, TrafficMatrix};
use tw_patterns::Pattern;

/// Builds a [`LearningModule`] step by step.
#[derive(Debug, Clone)]
pub struct ModuleBuilder {
    name: String,
    author: String,
    labels: LabelSet,
    matrix: TrafficMatrix,
    colors: ColorMatrix,
    question: Option<Question>,
    hint: Option<String>,
}

impl ModuleBuilder {
    /// Start a module with a name and author; defaults to the paper's 10-node
    /// labelling and an empty matrix.
    pub fn new(name: &str, author: &str) -> Self {
        let labels = LabelSet::paper_default_10();
        ModuleBuilder {
            name: name.to_string(),
            author: author.to_string(),
            matrix: TrafficMatrix::zeros(labels.clone()),
            colors: ColorMatrix::from_label_classes(&labels),
            labels,
            question: None,
            hint: None,
        }
    }

    /// Replace the axis labels; resets the matrix and colors to match.
    pub fn labels<S: Into<String>>(mut self, labels: impl IntoIterator<Item = S>) -> Result<Self> {
        let labels = LabelSet::new(labels)?;
        self.matrix = TrafficMatrix::zeros(labels.clone());
        self.colors = ColorMatrix::from_label_classes(&labels);
        self.labels = labels;
        Ok(self)
    }

    /// Set one traffic-matrix cell.
    pub fn cell(mut self, row: usize, col: usize, packets: u32) -> Result<Self> {
        self.matrix.set(row, col, packets)?;
        Ok(self)
    }

    /// Set one traffic-matrix cell by source/destination label.
    pub fn traffic(mut self, source: &str, destination: &str, packets: u32) -> Result<Self> {
        let row = self.labels.index_of(source).ok_or_else(|| {
            crate::error::ModuleError::Invalid(format!("unknown source label {source:?}"))
        })?;
        let col = self.labels.index_of(destination).ok_or_else(|| {
            crate::error::ModuleError::Invalid(format!("unknown destination label {destination:?}"))
        })?;
        self.matrix.set(row, col, packets)?;
        Ok(self)
    }

    /// Replace the whole traffic matrix (labels must match).
    pub fn matrix(mut self, matrix: TrafficMatrix) -> Result<Self> {
        if matrix.labels() != &self.labels {
            return Err(crate::error::ModuleError::Invalid(
                "matrix labels do not match the builder's labels".to_string(),
            ));
        }
        self.matrix = matrix;
        Ok(self)
    }

    /// Set one color cell.
    pub fn color(mut self, row: usize, col: usize, color: CellColor) -> Result<Self> {
        self.colors.set(row, col, color)?;
        Ok(self)
    }

    /// Replace the whole color plane.
    pub fn colors(mut self, colors: ColorMatrix) -> Self {
        self.colors = colors;
        self
    }

    /// Attach the three-option question.
    pub fn question(mut self, text: &str, answers: [&str; 3], correct: usize) -> Self {
        self.question = Some(Question {
            text: text.to_string(),
            answers: answers.iter().map(|s| s.to_string()).collect(),
            correct_answer_element: correct,
        });
        self
    }

    /// Attach a hint pointing at an external resource.
    pub fn hint(mut self, hint: &str) -> Self {
        self.hint = Some(hint.to_string());
        self
    }

    /// Finish the module.
    pub fn build(self) -> LearningModule {
        LearningModule {
            name: self.name,
            size: MatrixSize(self.labels.len()),
            author: self.author,
            matrix: self.matrix,
            colors: self.colors,
            question: self.question,
            hint: self.hint,
        }
    }
}

/// Convert a generated [`Pattern`] into a learning module with the paper's
/// canonical question ("Which choice is the displayed traffic pattern most
/// relevant to?") and two distractor answers.
pub fn module_from_pattern(
    pattern: &Pattern,
    author: &str,
    distractors: [&str; 2],
) -> LearningModule {
    let question = Question {
        text: tw_patterns::CANONICAL_QUESTION.to_string(),
        answers: vec![
            pattern.relevant_to.clone(),
            distractors[0].to_string(),
            distractors[1].to_string(),
        ],
        correct_answer_element: 0,
    };
    LearningModule {
        name: pattern.name.clone(),
        size: MatrixSize(pattern.dimension()),
        author: author.to_string(),
        matrix: pattern.matrix.clone(),
        colors: pattern.colors.clone(),
        question: Some(question),
        hint: pattern.hint.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use tw_patterns::ddos;

    /// The packet count from `source` to `destination`, by label.
    fn by_label(m: &TrafficMatrix, source: &str, destination: &str) -> Option<u32> {
        m.get(
            m.labels().index_of(source)?,
            m.labels().index_of(destination)?,
        )
    }

    #[test]
    fn builder_produces_valid_modules() {
        let module = ModuleBuilder::new("Lateral Movement Drill", "Instructor")
            .traffic("WS1", "WS2", 2)
            .unwrap()
            .traffic("WS2", "WS3", 2)
            .unwrap()
            .traffic("WS3", "SRV1", 3)
            .unwrap()
            .question(
                "Where is this traffic?",
                ["Blue space", "Grey space", "Red space"],
                0,
            )
            .hint("Zero Botnets report")
            .build();
        assert!(validate(&module).is_valid());
        assert_eq!(by_label(&module.matrix, "WS3", "SRV1"), Some(3));
        assert_eq!(module.size, MatrixSize(10));
        assert_eq!(module.hint.as_deref(), Some("Zero Botnets report"));
    }

    #[test]
    fn builder_rejects_unknown_labels_and_bad_indices() {
        assert!(ModuleBuilder::new("x", "a")
            .traffic("NOPE", "WS1", 1)
            .is_err());
        assert!(ModuleBuilder::new("x", "a")
            .traffic("WS1", "NOPE", 1)
            .is_err());
        assert!(ModuleBuilder::new("x", "a").cell(99, 0, 1).is_err());
        assert!(ModuleBuilder::new("x", "a")
            .color(0, 99, CellColor::Red)
            .is_err());
    }

    #[test]
    fn custom_labels_reset_matrix_dimensions() {
        let module = ModuleBuilder::new("Tiny", "a")
            .labels(["A", "B", "C"])
            .unwrap()
            .cell(0, 2, 4)
            .unwrap()
            .build();
        assert_eq!(module.dimension(), 3);
        assert_eq!(module.size, MatrixSize(3));
        assert_eq!(module.matrix.get(0, 2), Some(4));
    }

    #[test]
    fn matrix_replacement_requires_matching_labels() {
        let other = TrafficMatrix::zeros(LabelSet::numeric(10));
        assert!(ModuleBuilder::new("x", "a").matrix(other).is_err());
        let matching = TrafficMatrix::zeros(LabelSet::paper_default_10());
        assert!(ModuleBuilder::new("x", "a").matrix(matching).is_ok());
    }

    #[test]
    fn module_from_pattern_uses_the_canonical_question() {
        let pattern = ddos::attack();
        let module = module_from_pattern(
            &pattern,
            "MIT",
            ["Normal web browsing", "A software update"],
        );
        assert_eq!(module.name, "DDoS Attack");
        let q = module.question.as_ref().unwrap();
        assert_eq!(q.text, tw_patterns::CANONICAL_QUESTION);
        assert_eq!(q.answers.len(), 3);
        assert_eq!(
            q.correct_answer(),
            Some("A distributed denial-of-service attack")
        );
        assert!(validate(&module).is_valid());
        // Round trips through JSON like any hand-written module.
        let reparsed = LearningModule::from_json(&module.to_json()).unwrap();
        assert_eq!(reparsed, module);
    }
}
